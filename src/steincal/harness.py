"""Experiment configuration, sweep execution, and file formats.

Sweeps are reproducible by construction: every repetition derives its own
random stream from (master seed, family, delta, n, rep), so results are
identical for any thread count. Wall-clock timing is off by default because
it is the one field that would break byte-identical output.
"""
from __future__ import annotations

import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Sequence, Union

import numpy as np

from .kernels import (
    BaseMeasure,
    DistributionKernel,
    ExpGFDKernel,
    ExpKGFDKernel,
    ExpMMDKernel,
    ExpWassersteinKernel,
    ScalarKernel,
    median_heuristic,
    scalar_kernel,
    second_order_median_heuristic,
)
from .models import Dataset, GaussianBatch, ModelBatch, SyntheticSetup, as_dataset, sample_setup
from .sampling import CapabilityError, MalaConfig, RandomStream
from .statistics import (
    KCCSD,
    SKCE,
    ClosedFormGaussian,
    ExactSampler,
    MalaSampler,
    StatisticSpec,
    TestResult,
    run_calibration_test,
)

CSV_HEADER = ("family", "delta", "n", "rep", "statistic_name", "dist_kernel",
              "target_kernel", "statistic_value", "quantile", "p_value",
              "reject", "seed", "wall_time_ms")

DIST_KERNEL_VARIANTS = ("exp_gfd", "exp_kgfd", "exp_mmd", "exp_wasserstein")

# The keys each variant, statistic and strategy mode reads; any other key is an error.
_DIST_KERNEL_KEYS = {
    "exp_gfd": ("variant", "sigma", "base_samples"),
    "exp_kgfd": ("variant", "sigma", "base_samples", "ground"),
    "exp_mmd": ("variant", "sigma", "ground", "mode", "samples"),
    "exp_wasserstein": ("variant", "sigma"),
}
_STATISTIC_KEYS = {"kccsd": ("name",), "skce": ("name", "strategy")}
_STRATEGY_KEYS = {
    "closed_form": ("mode",),
    "exact_sampler": ("mode", "samples"),
    "mala": ("mode", "samples", "step_size", "steps", "burn_in"),
}
_STRATEGY_MODES = {ClosedFormGaussian: "closed_form", ExactSampler: "exact_sampler",
                   MalaSampler: "mala"}
_SCALAR_KERNEL_KEYS = ("family", "bandwidth")
_SETUP_KEYS = ("family", "delta", "mgm_shift")
_TEST_KEYS = ("statistic", "dist_kernel", "target_kernel", "alpha", "bootstrap", "seed")
_EXPERIMENT_KEYS = ("statistic", "dist_kernel", "target_kernel", "alpha", "bootstrap",
                    "master_seed", "setup", "n_grid", "repetitions", "record_timings")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message names the offending line."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _format_bandwidth(value: Union[float, str]) -> str:
    return value if isinstance(value, str) else format(value, ".17g")


@dataclass(frozen=True)
class TargetKernelSpec:
    family: str = "gaussian"
    bandwidth: Union[float, str] = "median"  # explicit value or "median"

    def describe(self) -> str:
        return f"{self.family}(bandwidth={_format_bandwidth(self.bandwidth)})"


@dataclass(frozen=True)
class DistKernelSpec:
    variant: str
    sigma: Union[float, str] = "median"  # explicit value or "median"
    base_samples: int = 10
    ground_family: str = "gaussian"
    ground_bandwidth: Union[float, str] = "second_order_median"
    mmd_mode: str = "closed_form"
    mmd_samples: int = 10

    def describe(self) -> str:
        sigma = _format_bandwidth(self.sigma)
        ground = f"ground={self.ground_family}({_format_bandwidth(self.ground_bandwidth)})"
        if self.variant == "exp_gfd":
            return f"exp_gfd(sigma={sigma};m={self.base_samples})"
        if self.variant == "exp_kgfd":
            return f"exp_kgfd(sigma={sigma};m={self.base_samples};{ground})"
        if self.variant == "exp_mmd":
            return f"exp_mmd(sigma={sigma};mode={self.mmd_mode};m={self.mmd_samples};{ground})"
        return f"exp_wasserstein(ell={sigma})"


def _statistic_name(spec: StatisticSpec) -> str:
    """The ``statistic_name`` CSV column: ``kccsd`` or ``skce_<strategy mode>``."""
    if isinstance(spec, KCCSD):
        return "kccsd"
    return "skce_" + _STRATEGY_MODES[type(spec.strategy)]


@dataclass(frozen=True)
class TestConfig:
    """Everything one calibration test needs besides its dataset."""

    __test__ = False  # not a pytest test class

    statistic: StatisticSpec
    dist_kernel: DistKernelSpec
    target_kernel: TargetKernelSpec = TargetKernelSpec()
    alpha: float = 0.05
    bootstrap: int = 500
    seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha: must lie in (0, 1)")
        if self.bootstrap < 1:
            raise ConfigError("bootstrap: must be >= 1")


@dataclass(frozen=True)
class ExperimentConfig:
    """A sweep: ``repetitions`` tests of ``test`` per n, each on a fresh sample
    of ``setup``; ``test.seed`` is the master seed."""

    setup: SyntheticSetup
    n_grid: tuple[int, ...]
    test: TestConfig
    repetitions: int = 100
    record_timings: bool = False

    def __post_init__(self):
        if len(self.n_grid) == 0 or any(n < 2 for n in self.n_grid):
            raise ConfigError("n_grid: must be a nonempty list of counts >= 2")
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be >= 1")


@dataclass(frozen=True)
class ResultRow:
    family: str
    delta: float
    n: int
    rep: int
    statistic_name: str
    dist_kernel: str
    target_kernel: str
    statistic_value: float
    quantile: float
    p_value: float
    reject: bool
    seed: int
    wall_time_ms: float


def _field(obj: dict, key: str, kind, default=None, required=False, where=""):
    label = f"{where}{key}"
    if key not in obj:
        if required:
            raise ConfigError(f"{label}: missing required field")
        return default
    value = obj[key]
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int too large
            raise ConfigError(f"{label}: must be a finite number")
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind in (str, bool, dict, list) and isinstance(value, kind):
        return value
    raise ConfigError(f"{label}: expected {kind.__name__}, got {type(value).__name__}")


def _require_known_keys(obj: dict, allowed: tuple, where: str) -> None:
    """Raise :class:`ConfigError` naming the first key of ``obj`` not in ``allowed``."""
    for key in obj:
        if key not in allowed:
            raise ConfigError(f"{where}{key}: unknown key (allowed: {', '.join(allowed)})")


def _bandwidth_field(obj: dict, key: str, allowed_token: str, default, where: str):
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, str):
        if value != allowed_token:
            raise ConfigError(f"{where}{key}: expected a number or {allowed_token!r}")
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int too large
            raise ConfigError(f"{where}{key}: must be a finite number")
        if value <= 0:
            raise ConfigError(f"{where}{key}: must be > 0")
        return float(value)
    raise ConfigError(f"{where}{key}: expected a number or {allowed_token!r}")


def _scalar_kernel_fields(obj: dict, median_token: str, where: str) -> tuple:
    _require_known_keys(obj, _SCALAR_KERNEL_KEYS, where)
    family = _field(obj, "family", str, default="gaussian", where=where)
    if family not in ("gaussian", "imq"):
        raise ConfigError(f"{where}family: must be 'gaussian' or 'imq'")
    return family, _bandwidth_field(obj, "bandwidth", median_token, median_token, where)


def parse_target_kernel(obj: dict, where: str = "target_kernel.") -> TargetKernelSpec:
    return TargetKernelSpec(*_scalar_kernel_fields(obj, "median", where))


def parse_dist_kernel(obj: dict, where: str = "dist_kernel.") -> DistKernelSpec:
    variant = _field(obj, "variant", str, required=True, where=where)
    if variant not in DIST_KERNEL_VARIANTS:
        raise ConfigError(f"{where}variant: must be one of {DIST_KERNEL_VARIANTS}")
    _require_known_keys(obj, _DIST_KERNEL_KEYS[variant], where)
    sigma = _bandwidth_field(obj, "sigma", "median", "median", where)
    base_samples = _field(obj, "base_samples", int, default=10, where=where)
    if base_samples < 1:
        raise ConfigError(f"{where}base_samples: must be >= 1")
    ground = _field(obj, "ground", dict, default={}, where=where)
    ground_family, ground_bandwidth = _scalar_kernel_fields(ground, "second_order_median",
                                                            where + "ground.")
    mmd_mode = _field(obj, "mode", str, default="closed_form", where=where)
    if mmd_mode not in ("closed_form", "sampled"):
        raise ConfigError(f"{where}mode: must be 'closed_form' or 'sampled'")
    mmd_samples = _field(obj, "samples", int, default=10, where=where)
    if mmd_samples < 1:
        raise ConfigError(f"{where}samples: must be >= 1")
    return DistKernelSpec(variant=variant, sigma=sigma, base_samples=base_samples,
                          ground_family=ground_family, ground_bandwidth=ground_bandwidth,
                          mmd_mode=mmd_mode, mmd_samples=mmd_samples)


def parse_statistic(obj: dict, where: str = "statistic.") -> StatisticSpec:
    name = _field(obj, "name", str, required=True, where=where)
    if name not in ("kccsd", "skce"):
        raise ConfigError(f"{where}name: must be 'kccsd' or 'skce'")
    _require_known_keys(obj, _STATISTIC_KEYS[name], where)
    if name == "kccsd":
        return KCCSD()
    strategy = _field(obj, "strategy", dict, default={}, where=where)
    where += "strategy."
    mode = _field(strategy, "mode", str, default="closed_form", where=where)
    if mode not in _STRATEGY_KEYS:
        raise ConfigError(f"{where}mode: must be 'closed_form', 'exact_sampler' or 'mala'")
    _require_known_keys(strategy, _STRATEGY_KEYS[mode], where)
    if mode == "closed_form":
        return SKCE(ClosedFormGaussian())
    samples = _field(strategy, "samples", int, default=10, where=where)
    if samples < 1:
        raise ConfigError(f"{where}samples: must be >= 1")
    if mode == "exact_sampler":
        return SKCE(ExactSampler(samples))
    step_size = _field(strategy, "step_size", float, default=0.01, where=where)
    if step_size <= 0:
        raise ConfigError(f"{where}step_size: must be > 0")
    steps = _field(strategy, "steps", int, default=5, where=where)
    if steps < 1:
        raise ConfigError(f"{where}steps: must be >= 1")
    burn_in = _field(strategy, "burn_in", int, default=0, where=where)
    if burn_in < 0:
        raise ConfigError(f"{where}burn_in: must be >= 0")
    return SKCE(MalaSampler(samples, MalaConfig(step_size, n_steps=steps, burn_in=burn_in)))


def parse_setup(obj: dict, where: str = "setup.") -> SyntheticSetup:
    _require_known_keys(obj, _SETUP_KEYS, where)
    family = _field(obj, "family", str, required=True, where=where)
    delta = _field(obj, "delta", float, default=0.0, where=where)
    mgm_shift = _field(obj, "mgm_shift", str, default="all", where=where)
    try:
        return SyntheticSetup(family=family, delta=delta, mgm_shift=mgm_shift)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _parse_test_fields(obj: dict, seed_key: str) -> TestConfig:
    return TestConfig(
        statistic=parse_statistic(_field(obj, "statistic", dict, required=True)),
        dist_kernel=parse_dist_kernel(_field(obj, "dist_kernel", dict, required=True)),
        target_kernel=parse_target_kernel(_field(obj, "target_kernel", dict, default={})),
        alpha=_field(obj, "alpha", float, default=0.05),
        bootstrap=_field(obj, "bootstrap", int, default=500),
        seed=_field(obj, seed_key, int, default=0),
    )


def parse_test_config(obj: dict) -> TestConfig:
    _require_known_keys(obj, _TEST_KEYS, "")
    return _parse_test_fields(obj, "seed")


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    _require_known_keys(obj, _EXPERIMENT_KEYS, "")
    setup = parse_setup(_field(obj, "setup", dict, required=True))
    n_grid = _field(obj, "n_grid", list, required=True)
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in n_grid):
        raise ConfigError("n_grid: entries must be integers")
    return ExperimentConfig(
        setup=setup,
        n_grid=tuple(n_grid),
        test=_parse_test_fields(obj, "master_seed"),
        repetitions=_field(obj, "repetitions", int, default=100),
        record_timings=_field(obj, "record_timings", bool, default=False),
    )


def load_json_object(path: str) -> dict:
    """Read a JSON configuration file whose top level must be an object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return obj


# ---------------------------------------------------------------------------
# Kernel resolution and single-test execution
# ---------------------------------------------------------------------------

def resolve_target_kernel(spec: TargetKernelSpec, targets: np.ndarray) -> ScalarKernel:
    if isinstance(spec.bandwidth, str):
        bandwidth = median_heuristic(targets)
    else:
        bandwidth = spec.bandwidth
    return scalar_kernel(spec.family, bandwidth)


def resolve_dist_kernel(spec: DistKernelSpec, models: ModelBatch,
                        bandwidth_stream: RandomStream) -> DistributionKernel:
    sigma = None if isinstance(spec.sigma, str) else spec.sigma
    if spec.variant == "exp_wasserstein":
        return ExpWassersteinKernel(sigma)
    base = BaseMeasure.standard_gaussian(models.dim)
    if spec.variant == "exp_gfd":
        return ExpGFDKernel(sigma, base, spec.base_samples)
    if isinstance(spec.ground_bandwidth, str):
        ground_bw = second_order_median_heuristic(models, stream=bandwidth_stream)
    else:
        ground_bw = spec.ground_bandwidth
    ground = scalar_kernel(spec.ground_family, ground_bw)
    if spec.variant == "exp_kgfd":
        return ExpKGFDKernel(sigma, base, ground, spec.base_samples)
    return ExpMMDKernel(sigma, ground, mode=spec.mmd_mode, num_samples=spec.mmd_samples)


def _run_test(data: Dataset, config: TestConfig, stream: RandomStream) -> TestResult:
    target_kernel = resolve_target_kernel(config.target_kernel, data.targets)
    dist_kernel = resolve_dist_kernel(config.dist_kernel, data.models, stream.derive("bandwidth"))
    return run_calibration_test(data, dist_kernel, target_kernel, config.statistic,
                                config.alpha, config.bootstrap, stream)


def run_test_on_dataset(data, config: TestConfig) -> TestResult:
    """Run the configured calibration test on a dataset or a list of (model, target) pairs."""
    return _run_test(as_dataset(data), config, RandomStream(config.seed))


# ---------------------------------------------------------------------------
# Experiment sweep
# ---------------------------------------------------------------------------

def _cell_stream(cfg: ExperimentConfig, n: int, rep: int) -> RandomStream:
    return (RandomStream(cfg.test.seed)
            .derive(cfg.setup.family)
            .derive("delta:" + format(cfg.setup.delta, ".17g"))
            .derive("n", n)
            .derive("rep", rep))


def _run_one(cfg: ExperimentConfig, n: int, rep: int) -> ResultRow:
    cell = _cell_stream(cfg, n, rep)
    data = sample_setup(cfg.setup, n, cell.derive("dataset"))
    start = time.perf_counter()
    result = _run_test(data, cfg.test, cell)
    elapsed_ms = (time.perf_counter() - start) * 1000.0 if cfg.record_timings else 0.0
    return ResultRow(
        family=cfg.setup.family,
        delta=cfg.setup.delta,
        n=n,
        rep=rep,
        statistic_name=_statistic_name(cfg.test.statistic),
        dist_kernel=cfg.test.dist_kernel.describe(),
        target_kernel=cfg.test.target_kernel.describe(),
        statistic_value=result.statistic,
        quantile=result.quantile,
        p_value=result.p_value,
        reject=result.reject,
        seed=cfg.test.seed,
        wall_time_ms=elapsed_ms,
    )


def run_experiment(cfg: ExperimentConfig, threads: int = 1) -> list[ResultRow]:
    """Run the full sweep; rows come back ordered by (n, rep)."""
    if threads < 1:
        raise ConfigError("threads: must be >= 1")
    tasks = [(n, rep) for n in cfg.n_grid for rep in range(1, cfg.repetitions + 1)]
    if threads == 1:
        rows = [_run_one(cfg, n, rep) for n, rep in tasks]
    else:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            rows = list(pool.map(lambda task: _run_one(cfg, *task), tasks))
    return sorted(rows, key=lambda r: (r.n, r.rep))


def rejection_rates(rows: Sequence[ResultRow]) -> dict[tuple[str, float, int], float]:
    """Mean of the reject column per (family, delta, n) cell."""
    cells: dict[tuple[str, float, int], list[bool]] = {}
    for row in rows:
        cells.setdefault((row.family, row.delta, row.n), []).append(row.reject)
    return {key: sum(flags) / len(flags) for key, flags in cells.items()}


# ---------------------------------------------------------------------------
# File formats
# ---------------------------------------------------------------------------

def _format_float(x: float) -> str:
    return format(float(x), ".17g")


def write_csv(rows: Sequence[ResultRow], path: str) -> None:
    """Fixed-header CSV with 17-significant-digit floats (lossless round trip)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for row in rows:
            fh.write(",".join([
                row.family,
                _format_float(row.delta),
                str(row.n),
                str(row.rep),
                row.statistic_name,
                row.dist_kernel,
                row.target_kernel,
                _format_float(row.statistic_value),
                _format_float(row.quantile),
                _format_float(row.p_value),
                "true" if row.reject else "false",
                str(row.seed),
                _format_float(row.wall_time_ms),
            ]) + "\n")


def read_csv(path: str) -> list[ResultRow]:
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n")
        if header.split(",") != list(CSV_HEADER):
            raise DatasetFormatError(f"{path}: line 1: unexpected CSV header")
        rows = []
        for lineno, line in enumerate(fh, start=2):
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(CSV_HEADER):
                raise DatasetFormatError(f"{path}: line {lineno}: expected "
                                         f"{len(CSV_HEADER)} fields, got {len(parts)}")
            try:
                rows.append(ResultRow(
                    family=parts[0], delta=float(parts[1]), n=int(parts[2]),
                    rep=int(parts[3]), statistic_name=parts[4], dist_kernel=parts[5],
                    target_kernel=parts[6], statistic_value=float(parts[7]),
                    quantile=float(parts[8]), p_value=float(parts[9]),
                    reject={"true": True, "false": False}[parts[10]],
                    seed=int(parts[11]), wall_time_ms=float(parts[12]),
                ))
            except (ValueError, KeyError) as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def write_dataset(data, fh: IO[str]) -> None:
    """JSON-lines dataset of diagonal Gaussian models: one
    {"model": {"mean": [...], "var": [...]}, "y": [...]} object per line.
    Other models raise :class:`CapabilityError`: the format holds only diagonal Gaussians."""
    data = as_dataset(data)
    if not isinstance(data.models, GaussianBatch):
        raise CapabilityError("the JSON-lines dataset format holds only diagonal Gaussian "
                              "models; score-only models cannot be written")
    for mean, var, y in zip(data.models.means, data.models.variances, data.targets):
        obj = {"model": {"mean": mean.tolist(), "var": var.tolist()}, "y": y.tolist()}
        fh.write(json.dumps(obj) + "\n")


def read_dataset(fh: IO[str], where: str = "<dataset>") -> Dataset:
    """Parse a JSON-lines dataset; failures name the offending line."""
    means, variances, targets = _read_lines(fh, where, with_targets=True)
    return Dataset(GaussianBatch(means, variances), targets)


def read_models(fh: IO[str], where: str = "<models>") -> GaussianBatch:
    """Parse models from JSON lines; accepts bare models or dataset rows."""
    return GaussianBatch(*_read_lines(fh, where, with_targets=False))


def _read_lines(fh: IO[str], where: str, with_targets: bool) -> list[np.ndarray]:
    """Means, variances and (with targets) targets of the nonblank lines,
    each stacked into an (n, d) array. Shapes are checked line by line; the
    values once on the stacked arrays, which name the first line holding NaN
    or +-Infinity (JSON parsing accepts them), then the first with a var <= 0.
    """
    rows = []
    linenos = []
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        at = f"{where}: line {lineno}"
        try:
            obj = json.loads(line)
        except json.JSONDecodeError as exc:
            raise DatasetFormatError(f"{at}: not valid JSON ({exc.msg})") from exc
        is_row = isinstance(obj, dict) and "model" in obj
        if with_targets and not (is_row and "y" in obj):
            raise DatasetFormatError(f"{at}: expected an object with 'model' and 'y'")
        model = obj["model"] if is_row else obj
        try:
            row = [np.atleast_1d(np.asarray(model[key], dtype=float)) for key in ("mean", "var")]
            if with_targets:
                row.append(np.atleast_1d(np.asarray(obj["y"], dtype=float)))
        except (KeyError, TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{at}: bad model or target ({exc})") from exc
        if row[0].size < 1 or any(a.ndim != 1 or a.size != row[0].size for a in row):
            shapes = ", ".join(str(a.shape) for a in row)
            raise DatasetFormatError(f"{at}: expected nonempty 1-d mean, var (and y) of "
                                     f"one length, got shapes {shapes}")
        if rows and row[0].size != rows[0][0].size:
            raise DatasetFormatError(f"{at}: dimension {row[0].size} differs from dimension "
                                     f"{rows[0][0].size} on line {linenos[0]}")
        rows.append(row)
        linenos.append(lineno)
    if not rows:
        raise DatasetFormatError(f"{where}: the file holds no models")
    stacked = [np.stack(column) for column in zip(*rows)]
    non_finite = ~np.isfinite(np.concatenate(stacked, axis=1)).all(axis=1)
    non_positive = ~(stacked[1] > 0).all(axis=1)
    for bad, problem in ((non_finite, "NaN or Infinity in the values"),
                         (non_positive, "bad model (var must be strictly positive)")):
        if bad.any():
            raise DatasetFormatError(f"{where}: line {linenos[int(np.argmax(bad))]}: {problem}")
    return stacked
