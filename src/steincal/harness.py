"""Experiment configuration, sweep execution, and file formats.

Sweeps are reproducible by construction: every repetition derives its own
random stream from (master seed, family, delta, n, rep), so results are
identical for any thread count. Wall-clock timing is off by default because
it is the one field that would break byte-identical output.
"""
from __future__ import annotations

import dataclasses
import json
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import IO, Callable, Sequence, Union

import numpy as np

from .kernels import (
    DistributionKernel,
    ExpGFDKernel,
    ExpKGFDKernel,
    ExpMMDKernel,
    ExpWassersteinKernel,
    SAMPLED_PAIRS,
    ScalarKernel,
    median_heuristic,
    scalar_kernel,
    second_order_median_heuristic,
)
from .models import Dataset, GaussianBatch, ModelBatch, SyntheticSetup, sample_setup
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

DIST_KERNEL_VARIANTS = ("exp_gfd", "exp_kgfd", "exp_mmd", "exp_wasserstein")
# Ground-bandwidth tokens, each with the pair budget of its second-order heuristic
# (None: every model pair)
GROUND_BANDWIDTH_TOKENS = {"second_order_median_sampled": SAMPLED_PAIRS,
                           "second_order_median": None}

_STRATEGY_MODES = {ClosedFormGaussian: "closed_form", ExactSampler: "exact_sampler",
                   MalaSampler: "mala"}


class ConfigError(ValueError):
    """Invalid configuration; the message names the offending field."""


class DatasetFormatError(ValueError):
    """Malformed dataset file; the message names the offending line."""


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _format_bandwidth(value: Union[float, str]) -> str:
    return value if isinstance(value, str) else format(value, ".17g")


def _check_bandwidth(value: Union[float, str], tokens: Sequence[str], label: str) -> None:
    if (value not in tokens) if isinstance(value, str) else not value > 0:
        raise ConfigError(f"{label}: must be a number > 0 or "
                          + " or ".join(repr(token) for token in tokens))


def _check_scalar_kernel(family: str, bandwidth: Union[float, str], tokens: Sequence[str],
                         where: str) -> None:
    if family not in ("gaussian", "imq"):
        raise ConfigError(f"{where}family: must be 'gaussian' or 'imq'")
    _check_bandwidth(bandwidth, tokens, where + "bandwidth")


@dataclass(frozen=True)
class TargetKernelSpec:
    """Checked when built; errors name the ``target_kernel`` config field."""

    family: str = "gaussian"
    bandwidth: Union[float, str] = "median"  # explicit value or "median"

    def __post_init__(self):
        _check_scalar_kernel(self.family, self.bandwidth, ("median",), "target_kernel.")

    def describe(self) -> str:
        return f"{self.family}(bandwidth={_format_bandwidth(self.bandwidth)})"


@dataclass(frozen=True)
class DistKernelSpec:
    """Checked when built; errors name the ``dist_kernel`` config field."""

    variant: str
    sigma: Union[float, str] = "median"  # explicit value or "median"
    base_samples: int = 10
    ground_family: str = "gaussian"
    ground_bandwidth: Union[float, str] = "second_order_median_sampled"  # value or token
    mmd_mode: str = "closed_form"
    mmd_samples: int = 10

    def __post_init__(self):
        if self.variant not in DIST_KERNEL_VARIANTS:
            raise ConfigError(f"dist_kernel.variant: must be one of {DIST_KERNEL_VARIANTS}")
        _check_bandwidth(self.sigma, ("median",), "dist_kernel.sigma")
        _check_scalar_kernel(self.ground_family, self.ground_bandwidth,
                             tuple(GROUND_BANDWIDTH_TOKENS), "dist_kernel.ground.")
        if self.mmd_mode not in ("closed_form", "sampled"):
            raise ConfigError("dist_kernel.mode: must be 'closed_form' or 'sampled'")

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
    """One CSV row; the fields are the columns, in order."""

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


# The writer and the reader of a CSV cell, by the declared type of a ResultRow field
_CSV_CELLS = {
    "str": (str, str),
    "int": (str, int),
    "float": (lambda x: format(float(x), ".17g"), float),
    "bool": (lambda b: "true" if b else "false", {"true": True, "false": False}.__getitem__),
}
_CSV_COLUMNS = [(field.name, *_CSV_CELLS[field.type]) for field in dataclasses.fields(ResultRow)]
CSV_HEADER = tuple(name for name, _, _ in _CSV_COLUMNS)

_REQUIRED = object()


class _Reader:
    """Typed reads of one JSON object's fields, each named ``where + key`` in its errors.

    A parser reads exactly the keys its variant or mode uses, then calls
    :meth:`done`, which rejects the first key that no read asked for.
    """

    def __init__(self, obj: dict, where: str):
        self.obj, self.where, self.keys = obj, where, []

    def __call__(self, key: str, kind, default=_REQUIRED, minimum=None):
        """``obj[key]``, or ``default`` when absent. ``kind`` is a type or a tuple of
        types; a number read as ``float`` must be finite and comes back a float, and a
        bool is accepted only as ``bool``."""
        self.keys.append(key)
        label = self.where + key
        if key not in self.obj:
            if default is _REQUIRED:
                raise ConfigError(f"{label}: missing required field")
            return default
        value = self.obj[key]
        kinds = kind if isinstance(kind, tuple) else (kind,)
        if float in kinds and isinstance(value, (int, float)) and not isinstance(value, bool):
            if not abs(value) <= sys.float_info.max:  # NaN, +-inf, or an int too large
                raise ConfigError(f"{label}: must be a finite number")
            value = float(value)
        elif not isinstance(value, kinds) or isinstance(value, bool) and bool not in kinds:
            expected = " or ".join(k.__name__ for k in kinds)
            raise ConfigError(f"{label}: expected {expected}, got {type(value).__name__}")
        if minimum is not None and value < minimum:
            raise ConfigError(f"{label}: must be >= {minimum}")
        return value

    def done(self) -> None:
        for key in self.obj:
            if key not in self.keys:
                raise ConfigError(f"{self.where}{key}: unknown key "
                                  f"(allowed: {', '.join(self.keys)})")


def _scalar_kernel_fields(obj: dict, where: str, family: str,
                          bandwidth: Union[float, str]) -> tuple:
    """``family`` and ``bandwidth`` of a scalar kernel object, the given ones when absent."""
    r = _Reader(obj, where)
    fields = r("family", str, family), r("bandwidth", (float, str), bandwidth)
    r.done()
    return fields


def parse_target_kernel(obj: dict) -> TargetKernelSpec:
    default = TargetKernelSpec()
    return TargetKernelSpec(*_scalar_kernel_fields(obj, "target_kernel.", default.family,
                                                   default.bandwidth))


def parse_dist_kernel(obj: dict) -> DistKernelSpec:
    r = _Reader(obj, "dist_kernel.")
    spec = DistKernelSpec(r("variant", str))  # checks the variant; holds the defaults
    fields = {"sigma": r("sigma", (float, str), spec.sigma)}
    if spec.variant in ("exp_gfd", "exp_kgfd"):
        fields["base_samples"] = r("base_samples", int, spec.base_samples, minimum=1)
    ground = r("ground", dict, {}) if spec.variant in ("exp_kgfd", "exp_mmd") else {}
    if spec.variant == "exp_mmd":
        fields["mmd_mode"] = r("mode", str, spec.mmd_mode)
        fields["mmd_samples"] = r("samples", int, spec.mmd_samples, minimum=1)
    r.done()
    fields["ground_family"], fields["ground_bandwidth"] = _scalar_kernel_fields(
        ground, "dist_kernel.ground.", spec.ground_family, spec.ground_bandwidth)
    return dataclasses.replace(spec, **fields)


def parse_gram_config(obj: dict) -> DistKernelSpec:
    """A `steincal gram` config: a dist-kernel object, bare or as the one key ``dist_kernel``."""
    if "dist_kernel" not in obj:
        return parse_dist_kernel(obj)
    r = _Reader(obj, "")
    dist_kernel = r("dist_kernel", dict)
    r.done()
    return parse_dist_kernel(dist_kernel)


def parse_statistic(obj: dict) -> StatisticSpec:
    r = _Reader(obj, "statistic.")
    name = r("name", str)
    if name not in ("kccsd", "skce"):
        raise ConfigError("statistic.name: must be 'kccsd' or 'skce'")
    strategy = r("strategy", dict, {}) if name == "skce" else None
    r.done()
    if name == "kccsd":
        return KCCSD()
    s = _Reader(strategy, "statistic.strategy.")
    mode = s("mode", str, "closed_form")
    if mode not in _STRATEGY_MODES.values():
        raise ConfigError("statistic.strategy.mode: must be 'closed_form', 'exact_sampler' "
                          "or 'mala'")
    if mode == "closed_form":
        built = ClosedFormGaussian()
    elif mode == "exact_sampler":
        built = ExactSampler(s("samples", int, 10, minimum=1))
    else:
        samples, step_size = s("samples", int, 10, minimum=1), s("step_size", float, 0.01)
        if step_size <= 0:
            raise ConfigError("statistic.strategy.step_size: must be > 0")
        built = MalaSampler(samples, MalaConfig(step_size, n_steps=s("steps", int, 5, minimum=1),
                                                burn_in=s("burn_in", int, 0, minimum=0)))
    s.done()
    return SKCE(built)


def parse_setup(obj: dict) -> SyntheticSetup:
    r = _Reader(obj, "setup.")
    fields = dict(family=r("family", str), delta=r("delta", float, 0.0),
                  mgm_shift=r("mgm_shift", str, "all"))
    r.done()
    try:
        return SyntheticSetup(**fields)
    except ValueError as exc:
        raise ConfigError(f"setup.{exc}") from exc


def _read_test_fields(r: _Reader, seed_key: str) -> Callable[[], TestConfig]:
    """Read the top-level keys a test and a sweep share. The returned callable
    parses the nested objects, once the caller has checked for unknown keys."""
    statistic, dist_kernel = r("statistic", dict), r("dist_kernel", dict)
    target_kernel = r("target_kernel", dict, {})
    alpha, bootstrap = r("alpha", float, 0.05), r("bootstrap", int, 500)
    seed = r(seed_key, int, 0)
    return lambda: TestConfig(parse_statistic(statistic), parse_dist_kernel(dist_kernel),
                              parse_target_kernel(target_kernel), alpha, bootstrap, seed)


def parse_test_config(obj: dict) -> TestConfig:
    r = _Reader(obj, "")
    build_test = _read_test_fields(r, "seed")
    r.done()
    return build_test()


def parse_experiment_config(obj: dict) -> ExperimentConfig:
    r = _Reader(obj, "")
    build_test = _read_test_fields(r, "master_seed")
    setup, n_grid = r("setup", dict), r("n_grid", list)
    repetitions, record_timings = r("repetitions", int, 100), r("record_timings", bool, False)
    r.done()
    setup = parse_setup(setup)
    if not all(isinstance(n, int) and not isinstance(n, bool) for n in n_grid):
        raise ConfigError("n_grid: entries must be integers")
    return ExperimentConfig(setup, tuple(n_grid), build_test(), repetitions, record_timings)


def load_json_object(path: str) -> dict:
    """Read a JSON configuration file whose top level must be an object."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: not valid JSON ({exc})") from exc
        except UnicodeDecodeError as exc:
            raise ConfigError(f"{path}: not valid text ({exc})") from exc
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
    if spec.variant == "exp_gfd":
        return ExpGFDKernel(sigma, spec.base_samples)
    if isinstance(spec.ground_bandwidth, str):
        if len(models) < 2:
            raise ConfigError(f"dist_kernel.ground.bandwidth: {spec.ground_bandwidth!r} "
                              "needs at least two models")
        ground_bw = second_order_median_heuristic(
            models, stream=bandwidth_stream,
            pair_budget=GROUND_BANDWIDTH_TOKENS[spec.ground_bandwidth])
    else:
        ground_bw = spec.ground_bandwidth
    ground = scalar_kernel(spec.ground_family, ground_bw)
    if spec.variant == "exp_kgfd":
        return ExpKGFDKernel(sigma, ground, spec.base_samples)
    return ExpMMDKernel(sigma, ground, spec.mmd_samples if spec.mmd_mode == "sampled" else None)


def _run_test(data: Dataset, config: TestConfig, stream: RandomStream) -> TestResult:
    target_kernel = resolve_target_kernel(config.target_kernel, data.targets)
    dist_kernel = resolve_dist_kernel(config.dist_kernel, data.models, stream.derive("bandwidth"))
    return run_calibration_test(data, dist_kernel, target_kernel, config.statistic,
                                config.alpha, config.bootstrap, stream)


def run_test_on_dataset(data: Dataset, config: TestConfig) -> TestResult:
    """Run the configured calibration test on a dataset."""
    return _run_test(data, config, RandomStream(config.seed))


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

def write_csv(rows: Sequence[ResultRow], path: str) -> None:
    """One column per :class:`ResultRow` field, floats with 17 significant digits
    (a lossless round trip) and bools as ``true``/``false``."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(CSV_HEADER) + "\n")
        for row in rows:
            fh.write(",".join([write(getattr(row, name)) for name, write, _ in _CSV_COLUMNS])
                     + "\n")


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
                rows.append(ResultRow(*[parse(part) for (_, _, parse), part
                                        in zip(_CSV_COLUMNS, parts)]))
            except (ValueError, KeyError) as exc:
                raise DatasetFormatError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def write_dataset(data: Dataset, fh: IO[str]) -> None:
    """JSON-lines dataset of diagonal Gaussian models: one
    {"model": {"mean": [...], "var": [...]}, "y": [...]} object per line.
    Other models raise :class:`CapabilityError`: the format holds only diagonal Gaussians."""
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


_JSON_NUMBERS = {int, float}


def _holds_bool_or_str(value) -> bool:
    """Whether a parsed JSON value is, or holds in nested lists, a bool or a string
    (which ``np.asarray(..., dtype=float)`` would read as a number). A list of numbers
    alone is passed on the set of its entries' types, without a call per entry."""
    if isinstance(value, list):
        return not set(map(type, value)) <= _JSON_NUMBERS and any(map(_holds_bool_or_str, value))
    return isinstance(value, (bool, str))


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
            values = [model["mean"], model["var"]] + ([obj["y"]] if with_targets else [])
            if any(map(_holds_bool_or_str, values)):
                raise TypeError("a boolean or a string where a number belongs")
            row = [np.atleast_1d(np.asarray(value, dtype=float)) for value in values]
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
