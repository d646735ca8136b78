"""Experiment configuration, sweep execution, and file formats.

Sweeps are reproducible by construction: every repetition derives its own
random stream from (master seed, family, delta, n, rep), so results are
identical for any thread count. Wall-clock timing is off by default because
it is the one field that would break byte-identical output.
"""
from __future__ import annotations

import json
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
from .models import (
    DiagonalGaussian,
    SyntheticSetup,
    dataset_models,
    dataset_targets,
    sample_setup,
)
from .sampling import MalaConfig, RandomStream
from .statistics import (
    KCCSD,
    SKCE,
    ClosedFormGaussian,
    ExactSampler,
    MalaSampler,
    TestResult,
    run_calibration_test,
)

CSV_HEADER = ("family", "delta", "n", "rep", "statistic_name", "dist_kernel",
              "target_kernel", "statistic_value", "quantile", "p_value",
              "reject", "seed", "wall_time_ms")

DIST_KERNEL_VARIANTS = ("exp_gfd", "exp_kgfd", "exp_mmd", "exp_wasserstein")


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message names the offending line."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TargetKernelSpec:
    family: str = "gaussian"
    bandwidth: Union[float, str] = "median"  # explicit value or "median"

    def describe(self) -> str:
        bw = self.bandwidth if isinstance(self.bandwidth, str) else format(self.bandwidth, ".17g")
        return f"{self.family}(bandwidth={bw})"


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
        sigma = self.sigma if isinstance(self.sigma, str) else format(self.sigma, ".17g")
        if self.variant == "exp_gfd":
            return f"exp_gfd(sigma={sigma};m={self.base_samples})"
        if self.variant == "exp_kgfd":
            gbw = (self.ground_bandwidth if isinstance(self.ground_bandwidth, str)
                   else format(self.ground_bandwidth, ".17g"))
            return (f"exp_kgfd(sigma={sigma};m={self.base_samples};"
                    f"ground={self.ground_family}({gbw}))")
        if self.variant == "exp_mmd":
            gbw = (self.ground_bandwidth if isinstance(self.ground_bandwidth, str)
                   else format(self.ground_bandwidth, ".17g"))
            return (f"exp_mmd(sigma={sigma};mode={self.mmd_mode};m={self.mmd_samples};"
                    f"ground={self.ground_family}({gbw}))")
        return f"exp_wasserstein(ell={sigma})"


@dataclass(frozen=True)
class StatisticConfig:
    name: str  # "kccsd" | "skce"
    strategy_mode: str = "closed_form"  # skce only
    strategy_samples: int = 10
    mala_step_size: float = 0.01
    mala_steps: int = 5
    mala_burn_in: int = 0

    def describe(self) -> str:
        if self.name == "kccsd":
            return "kccsd"
        return f"skce_{self.strategy_mode}"

    def build(self):
        if self.name == "kccsd":
            return KCCSD()
        if self.strategy_mode == "closed_form":
            return SKCE(ClosedFormGaussian())
        if self.strategy_mode == "exact_sampler":
            return SKCE(ExactSampler(self.strategy_samples))
        return SKCE(MalaSampler(
            self.strategy_samples,
            MalaConfig(step_size=self.mala_step_size, n_steps=self.mala_steps,
                       burn_in=self.mala_burn_in),
        ))


@dataclass(frozen=True)
class ExperimentConfig:
    setup: SyntheticSetup
    n_grid: tuple[int, ...]
    statistic: StatisticConfig
    dist_kernel: DistKernelSpec
    target_kernel: TargetKernelSpec = TargetKernelSpec()
    repetitions: int = 100
    alpha: float = 0.05
    bootstrap: int = 500
    master_seed: int = 0
    record_timings: bool = False

    def __post_init__(self):
        if len(self.n_grid) == 0 or any(n < 2 for n in self.n_grid):
            raise ConfigError("n_grid: must be a nonempty list of counts >= 2")
        if self.repetitions < 1:
            raise ConfigError("repetitions: must be >= 1")
        if not 0.0 < self.alpha < 1.0:
            raise ConfigError("alpha: must lie in (0, 1)")
        if self.bootstrap < 1:
            raise ConfigError("bootstrap: must be >= 1")


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
        return float(value)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if kind is str and isinstance(value, str):
        return value
    if kind is bool and isinstance(value, bool):
        return value
    if kind is dict and isinstance(value, dict):
        return value
    if kind is list and isinstance(value, list):
        return value
    raise ConfigError(f"{label}: expected {kind.__name__}, got {type(value).__name__}")


def _bandwidth_field(obj: dict, key: str, allowed_token: str, default, where: str):
    if key not in obj:
        return default
    value = obj[key]
    if isinstance(value, str):
        if value != allowed_token:
            raise ConfigError(f"{where}{key}: expected a number or {allowed_token!r}")
        return value
    if isinstance(value, (int, float)) and not isinstance(value, bool):
        if value <= 0:
            raise ConfigError(f"{where}{key}: must be > 0")
        return float(value)
    raise ConfigError(f"{where}{key}: expected a number or {allowed_token!r}")


def parse_target_kernel(obj: dict, where: str = "target_kernel.") -> TargetKernelSpec:
    family = _field(obj, "family", str, default="gaussian", where=where)
    if family not in ("gaussian", "imq"):
        raise ConfigError(f"{where}family: must be 'gaussian' or 'imq'")
    bandwidth = _bandwidth_field(obj, "bandwidth", "median", "median", where)
    return TargetKernelSpec(family=family, bandwidth=bandwidth)


def parse_dist_kernel(obj: dict, where: str = "dist_kernel.") -> DistKernelSpec:
    variant = _field(obj, "variant", str, required=True, where=where)
    if variant not in DIST_KERNEL_VARIANTS:
        raise ConfigError(f"{where}variant: must be one of {DIST_KERNEL_VARIANTS}")
    sigma = _bandwidth_field(obj, "sigma", "median", "median", where)
    base_samples = _field(obj, "base_samples", int, default=10, where=where)
    if base_samples < 1:
        raise ConfigError(f"{where}base_samples: must be >= 1")
    ground = _field(obj, "ground", dict, default={}, where=where)
    ground_family = _field(ground, "family", str, default="gaussian", where=where + "ground.")
    if ground_family not in ("gaussian", "imq"):
        raise ConfigError(f"{where}ground.family: must be 'gaussian' or 'imq'")
    ground_bandwidth = _bandwidth_field(ground, "bandwidth", "second_order_median",
                                        "second_order_median", where + "ground.")
    mmd_mode = _field(obj, "mode", str, default="closed_form", where=where)
    if mmd_mode not in ("closed_form", "sampled"):
        raise ConfigError(f"{where}mode: must be 'closed_form' or 'sampled'")
    mmd_samples = _field(obj, "samples", int, default=10, where=where)
    if mmd_samples < 1:
        raise ConfigError(f"{where}samples: must be >= 1")
    return DistKernelSpec(variant=variant, sigma=sigma, base_samples=base_samples,
                          ground_family=ground_family, ground_bandwidth=ground_bandwidth,
                          mmd_mode=mmd_mode, mmd_samples=mmd_samples)


def parse_statistic(obj: dict, where: str = "statistic.") -> StatisticConfig:
    name = _field(obj, "name", str, required=True, where=where)
    if name not in ("kccsd", "skce"):
        raise ConfigError(f"{where}name: must be 'kccsd' or 'skce'")
    if name == "kccsd":
        return StatisticConfig(name="kccsd")
    strategy = _field(obj, "strategy", dict, default={}, where=where)
    mode = _field(strategy, "mode", str, default="closed_form", where=where + "strategy.")
    if mode not in ("closed_form", "exact_sampler", "mala"):
        raise ConfigError(f"{where}strategy.mode: must be 'closed_form', "
                          "'exact_sampler' or 'mala'")
    samples = _field(strategy, "samples", int, default=10, where=where + "strategy.")
    if samples < 1:
        raise ConfigError(f"{where}strategy.samples: must be >= 1")
    step_size = _field(strategy, "step_size", float, default=0.01, where=where + "strategy.")
    if step_size <= 0:
        raise ConfigError(f"{where}strategy.step_size: must be > 0")
    steps = _field(strategy, "steps", int, default=5, where=where + "strategy.")
    if steps < 1:
        raise ConfigError(f"{where}strategy.steps: must be >= 1")
    burn_in = _field(strategy, "burn_in", int, default=0, where=where + "strategy.")
    if burn_in < 0:
        raise ConfigError(f"{where}strategy.burn_in: must be >= 0")
    return StatisticConfig(name="skce", strategy_mode=mode, strategy_samples=samples,
                           mala_step_size=step_size, mala_steps=steps, mala_burn_in=burn_in)


def parse_setup(obj: dict, where: str = "setup.") -> SyntheticSetup:
    family = _field(obj, "family", str, required=True, where=where)
    delta = _field(obj, "delta", float, default=0.0, where=where)
    mgm_shift = _field(obj, "mgm_shift", str, default="all", where=where)
    try:
        return SyntheticSetup(family=family, delta=delta, mgm_shift=mgm_shift)
    except ValueError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    setup = parse_setup(_field(obj, "setup", dict, required=True))
    n_grid = _field(obj, "n_grid", list, required=True)
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in n_grid):
        raise ConfigError("n_grid: entries must be integers")
    statistic = parse_statistic(_field(obj, "statistic", dict, required=True))
    dist_kernel = parse_dist_kernel(_field(obj, "dist_kernel", dict, required=True))
    target_kernel = parse_target_kernel(_field(obj, "target_kernel", dict, default={}))
    return ExperimentConfig(
        setup=setup,
        n_grid=tuple(n_grid),
        statistic=statistic,
        dist_kernel=dist_kernel,
        target_kernel=target_kernel,
        repetitions=_field(obj, "repetitions", int, default=100),
        alpha=_field(obj, "alpha", float, default=0.05),
        bootstrap=_field(obj, "bootstrap", int, default=500),
        master_seed=_field(obj, "master_seed", int, default=0),
        record_timings=_field(obj, "record_timings", bool, default=False),
    )


def load_experiment_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ConfigError(f"{path}: top level must be a JSON object")
    return parse_experiment_config(obj)


# ---------------------------------------------------------------------------
# Kernel resolution and single-test execution
# ---------------------------------------------------------------------------

def resolve_target_kernel(spec: TargetKernelSpec, targets: np.ndarray) -> ScalarKernel:
    if isinstance(spec.bandwidth, str):
        bandwidth = median_heuristic(targets)
    else:
        bandwidth = spec.bandwidth
    return scalar_kernel(spec.family, bandwidth)


def resolve_dist_kernel(spec: DistKernelSpec, models: Sequence, target_dim: int,
                        bandwidth_stream: RandomStream) -> DistributionKernel:
    sigma = None if isinstance(spec.sigma, str) else spec.sigma
    if spec.variant == "exp_wasserstein":
        return ExpWassersteinKernel(sigma)
    base = BaseMeasure.standard_gaussian(target_dim)
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


@dataclass(frozen=True)
class TestConfig:
    statistic: StatisticConfig
    dist_kernel: DistKernelSpec
    target_kernel: TargetKernelSpec = TargetKernelSpec()
    alpha: float = 0.05
    bootstrap: int = 500
    seed: int = 0


def parse_test_config(obj: dict) -> TestConfig:
    statistic = parse_statistic(_field(obj, "statistic", dict, required=True))
    dist_kernel = parse_dist_kernel(_field(obj, "dist_kernel", dict, required=True))
    target_kernel = parse_target_kernel(_field(obj, "target_kernel", dict, default={}))
    alpha = _field(obj, "alpha", float, default=0.05)
    if not 0.0 < alpha < 1.0:
        raise ConfigError("alpha: must lie in (0, 1)")
    bootstrap = _field(obj, "bootstrap", int, default=500)
    if bootstrap < 1:
        raise ConfigError("bootstrap: must be >= 1")
    seed = _field(obj, "seed", int, default=0)
    return TestConfig(statistic=statistic, dist_kernel=dist_kernel,
                      target_kernel=target_kernel, alpha=alpha,
                      bootstrap=bootstrap, seed=seed)


def run_test_on_dataset(pairs, config: TestConfig) -> TestResult:
    """Run the configured calibration test on an explicit dataset."""
    stream = RandomStream(config.seed)
    targets = dataset_targets(pairs)
    target_kernel = resolve_target_kernel(config.target_kernel, targets)
    dist_kernel = resolve_dist_kernel(config.dist_kernel, dataset_models(pairs),
                                      targets.shape[1], stream.derive("bandwidth"))
    return run_calibration_test(pairs, dist_kernel, target_kernel,
                                config.statistic.build(), config.alpha,
                                config.bootstrap, stream)


# ---------------------------------------------------------------------------
# Experiment sweep
# ---------------------------------------------------------------------------

def _cell_stream(cfg: ExperimentConfig, n: int, rep: int) -> RandomStream:
    return (RandomStream(cfg.master_seed)
            .derive(cfg.setup.family)
            .derive("delta:" + format(cfg.setup.delta, ".17g"))
            .derive("n", n)
            .derive("rep", rep))


def _run_one(cfg: ExperimentConfig, n: int, rep: int) -> ResultRow:
    cell = _cell_stream(cfg, n, rep)
    pairs = sample_setup(cfg.setup, n, cell.derive("dataset"))
    start = time.perf_counter()
    targets = dataset_targets(pairs)
    target_kernel = resolve_target_kernel(cfg.target_kernel, targets)
    dist_kernel = resolve_dist_kernel(cfg.dist_kernel, dataset_models(pairs),
                                      cfg.setup.target_dim, cell.derive("bandwidth"))
    result = run_calibration_test(pairs, dist_kernel, target_kernel,
                                  cfg.statistic.build(), cfg.alpha, cfg.bootstrap, cell)
    elapsed_ms = (time.perf_counter() - start) * 1000.0 if cfg.record_timings else 0.0
    return ResultRow(
        family=cfg.setup.family,
        delta=cfg.setup.delta,
        n=n,
        rep=rep,
        statistic_name=cfg.statistic.describe(),
        dist_kernel=cfg.dist_kernel.describe(),
        target_kernel=cfg.target_kernel.describe(),
        statistic_value=result.statistic,
        quantile=result.quantile,
        p_value=result.p_value,
        reject=result.reject,
        seed=cfg.master_seed,
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


def write_dataset(pairs, fh: IO[str]) -> None:
    """JSON-lines dataset: one {"model": {...}, "y": [...]} object per line."""
    for model, y in pairs:
        obj = {"model": model.to_json_dict(), "y": np.atleast_1d(np.asarray(y, float)).tolist()}
        fh.write(json.dumps(obj) + "\n")


def read_dataset(fh: IO[str], where: str = "<dataset>") -> list[tuple[DiagonalGaussian, np.ndarray]]:
    """Parse a JSON-lines dataset; failures name the offending line."""
    pairs = []
    linenos = []
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        obj = _parse_line(line, where, lineno)
        if not isinstance(obj, dict) or "model" not in obj or "y" not in obj:
            raise DatasetFormatError(f"{where}: line {lineno}: expected an object "
                                     "with 'model' and 'y'")
        model = _parse_model(obj["model"], where, lineno)
        try:
            y = np.atleast_1d(np.asarray(obj["y"], dtype=float))
        except (TypeError, ValueError) as exc:
            raise DatasetFormatError(f"{where}: line {lineno}: bad target ({exc})") from exc
        if y.ndim != 1 or y.size != model.dim:
            raise DatasetFormatError(f"{where}: line {lineno}: target dimension "
                                     f"{y.size} does not match model dimension {model.dim}")
        pairs.append((model, y))
        linenos.append(lineno)
    _require_finite_lines([(m.mean, m.var, y) for m, y in pairs], linenos, where)
    return pairs


def read_models(fh: IO[str], where: str = "<models>") -> list[DiagonalGaussian]:
    """Parse models from JSON lines; accepts bare models or dataset rows."""
    models = []
    linenos = []
    for lineno, line in enumerate(fh, start=1):
        if not line.strip():
            continue
        obj = _parse_line(line, where, lineno)
        if isinstance(obj, dict) and "model" in obj:
            obj = obj["model"]
        models.append(_parse_model(obj, where, lineno))
        linenos.append(lineno)
    _require_finite_lines([(m.mean, m.var) for m in models], linenos, where)
    return models


def _parse_line(line: str, where: str, lineno: int):
    try:
        return json.loads(line)
    except json.JSONDecodeError as exc:
        raise DatasetFormatError(f"{where}: line {lineno}: not valid JSON ({exc.msg})") from exc


def _parse_model(obj, where: str, lineno: int) -> DiagonalGaussian:
    try:
        return DiagonalGaussian.from_json_dict(obj)
    except (KeyError, TypeError, ValueError) as exc:
        raise DatasetFormatError(f"{where}: line {lineno}: bad model ({exc})") from exc


def _require_finite_lines(rows: list[tuple], linenos: list[int], where: str) -> None:
    """Reject NaN and +-Infinity (which JSON parsing accepts) with the first
    offending line; one array check covers a healthy file."""
    if not rows or np.isfinite(np.concatenate([a for row in rows for a in row])).all():
        return
    for lineno, row in zip(linenos, rows):
        if not all(np.isfinite(a).all() for a in row):
            raise DatasetFormatError(f"{where}: line {lineno}: NaN or Infinity in the values")
